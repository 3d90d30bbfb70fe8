import importlib
import pkgutil

import pytest

import multigrip

MODULES = [info.name for info in pkgutil.iter_modules(multigrip.__path__, "multigrip.")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    """`from <module> import *` must not name anything the module lacks."""
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


# The names `multigrip` re-exported when its __init__ imported every
# submodule eagerly, by the submodule that defines them.
EAGER_EXPORTS = {
    "mechanics": ["DEFAULT_COUNTS", "DEFAULT_GEARS", "DEFAULT_MAGNET",
                  "DrivetrainForces", "GearGeometry", "GearingViolation",
                  "MagnetDetent", "SurfaceCounts", "body_torques",
                  "breakaway_motor_torque", "chain_tension", "detent_peak",
                  "detent_torque", "drivetrain_forces", "finger_body_angles",
                  "gc_mode_count", "grasp_forces", "switch_interval",
                  "validate_antipodal_gearing"],
    "modes": ["GcModeTable", "SurfaceKind", "SurfaceShape", "build_mode_table",
              "concave", "convex", "deformable_flat", "distinct_shape_pairs", "flat"],
    "control": ["ControllerState", "Direction", "MotorCommand", "PositionMove",
                "TorqueRamp", "grasp_command", "release_command",
                "release_then_switch", "switch_command", "switch_rotation"],
    "sim": ["GripperState", "Phase", "Scenario", "SimTrace", "body_torque_trace",
            "grasp_scenario", "run_scenario", "step", "switch_scenario"],
    "objects": ["Box", "Circle", "CompositeFaces", "FaceArc", "ObjectDescription",
                "ObjectSpec", "ThinPlate", "parse_object_file"],
    "grasp": ["Contact", "ContactSet", "GraspOutcome", "GraspResult", "caging_test",
              "classify_grasp", "closure_separation", "compute_contacts",
              "force_closure_test", "form_closure_test", "surface_profile"],
    "planner": ["ObjectFace", "ObjectFaces", "PlannerThresholds", "PlanResult",
                "candidate_surfaces", "select_mode"],
    "config": ["RunConfig", "default_config", "load_config", "parse_config"],
}
EXPORTED = [(module, name) for module, names in EAGER_EXPORTS.items() for name in names]


class TestLazyExports:
    @pytest.mark.parametrize("module, name", EXPORTED)
    def test_export_is_the_module_attribute(self, module, name):
        assert getattr(multigrip, name) is getattr(
            importlib.import_module(f"multigrip.{module}"), name)

    def test_exports_and_submodules_are_listed(self):
        namespace = {}
        exec("from multigrip import *", namespace)
        listed = {*EAGER_EXPORTS, *(name for _, name in EXPORTED)}
        assert listed <= set(dir(multigrip))
        assert listed <= namespace.keys()
        for module in EAGER_EXPORTS:
            assert namespace[module] is importlib.import_module(f"multigrip.{module}")

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError,
                           match=r"^module 'multigrip' has no attribute 'no_such_name'$"):
            multigrip.no_such_name
        with pytest.raises(ImportError):
            exec("from multigrip import no_such_name", {})
