import dataclasses
import inspect
import math
import re

import pytest

from multigrip import cli, grasp, modes, planner, sim
from multigrip.config import (_SECTIONS, DEFAULT_DETENT_VALUES, SWEEPABLE_PARAMS,
                              ConfigError, RunConfig, default_config, load_config,
                              parse_config, set_config_value)
from multigrip.mechanics import (DEFAULT_COUNTS, DEFAULT_GEARS, DEFAULT_MAGNET,
                                 gc_mode_count, switch_interval)
from multigrip.objects import (Box, Circle, CompositeFaces, FaceArc,
                               ObjectFileError, ObjectSpec, ThinPlate,
                               parse_object_file)

MINIMAL = """
[gears]
input_sprocket_radius_mm = 20
drive_sprocket_radius_mm = 15
shaft_gear_radius_3s_mm = 10
shaft_gear_radius_4s_mm = 7.5
body_gear_radius_3s_mm = 12
body_gear_radius_4s_mm = 12
"""


class TestParseConfig:
    def test_reference_file_yields_expected_interval(self, fixtures_dir):
        cfg = load_config(fixtures_dir / "default.cfg")
        assert math.degrees(switch_interval(cfg.gears, cfg.counts)) == pytest.approx(108.0)
        assert gc_mode_count(cfg.counts) == 12
        assert cfg.magnet.magnet_coefficient == pytest.approx(1.07e-5)

    def test_minimal_file_gets_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.counts.n_3s == 3 and cfg.counts.n_4s == 4
        assert cfg.stroke_limit == 40.0
        assert len(cfg.order_4s) == 4

    def test_matches_built_in_defaults(self, fixtures_dir):
        assert load_config(fixtures_dir / "default.cfg") == default_config()

    def test_defaults_come_from_mechanics(self):
        cfg = default_config()
        assert (cfg.gears, cfg.magnet, cfg.counts) == (
            DEFAULT_GEARS, DEFAULT_MAGNET, DEFAULT_COUNTS)
        assert DEFAULT_DETENT_VALUES == {
            "magnet_coefficient_nmm2": DEFAULT_MAGNET.magnet_coefficient,
            "magnet_circle_radius_mm": DEFAULT_MAGNET.circle_radius,
            "magnet_gap_mm": DEFAULT_MAGNET.nominal_gap,
        }
        minimal = parse_config(MINIMAL)
        assert (minimal.magnet, minimal.counts) == (DEFAULT_MAGNET, DEFAULT_COUNTS)

    def test_missing_required_gear_key(self):
        text = "\n".join(line for line in MINIMAL.splitlines()
                         if "shaft_gear_radius_4s_mm" not in line)
        with pytest.raises(ConfigError, match="shaft_gear_radius_4s_mm"):
            parse_config(text)

    def test_gear_ratio_validator_failure(self):
        bad = MINIMAL.replace("shaft_gear_radius_4s_mm = 7.5",
                              "shaft_gear_radius_4s_mm = 10")
        with pytest.raises(ConfigError, match="antipodal"):
            parse_config(bad)

    def test_unknown_key_with_line_number(self):
        text = MINIMAL + "bogus_key = 3\n"
        with pytest.raises(ConfigError, match=r"line \d+: unknown key 'bogus_key'"):
            parse_config(text)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(MINIMAL + "[jets]\nthrust = 9\n")

    def test_non_numeric_value_with_line_number(self):
        bad = MINIMAL.replace("= 7.5", "= seven")
        with pytest.raises(ConfigError, match="non-numeric"):
            parse_config(bad)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(MINIMAL + "input_sprocket_radius_mm = 20\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("stray = 1\n" + MINIMAL)

    def test_custom_surface_orders(self):
        text = MINIMAL + """
[surfaces]
count_3s = 3
count_4s = 4
order_3s = flat, flat, concave
order_4s = flat, convex, convex, deformable
"""
        cfg = parse_config(text)
        assert cfg.order_3s[1].kind.value == "flat"
        assert cfg.order_4s[2].kind.value == "convex"

    def test_every_surface_kind_parses(self):
        text = MINIMAL + "[surfaces]\norder_4s = flat, convex, concave, deformable\n"
        assert [s.kind for s in parse_config(text).order_4s] == list(modes.SurfaceKind)

    def test_unknown_surface_line_number(self):
        text = MINIMAL + "[surfaces]\norder_3s = flat, wavy, concave\n"
        lineno = text.splitlines().index("order_3s = flat, wavy, concave") + 1
        with pytest.raises(ConfigError,
                           match=f"^line {lineno}: unknown surface 'wavy' in order_3s$"):
            parse_config(text)

    def test_order_count_mismatch(self):
        text = MINIMAL + "[surfaces]\ncount_3s = 3\norder_3s = flat, convex\n"
        with pytest.raises(ConfigError, match="3S"):
            parse_config(text)

    def test_scalar_defaults_are_the_field_defaults(self):
        cfg = parse_config(MINIMAL)
        fields = {f.name: f.default for f in dataclasses.fields(RunConfig)
                  if f.default is not dataclasses.MISSING}
        assert {name: getattr(cfg, name) for name in fields} == fields
        assert default_config().order_3s == cfg.order_3s

    @pytest.mark.parametrize("section, line, message", [
        ("sim", "friction_torque_nmm = nan", "non-finite"),
        ("sim", "friction_torque_nmm = -1", "must be non-negative"),
        ("sim", "step_deg = nan", "non-finite"),
        ("sim", "step_deg = -1", "must be positive"),
        ("sim", "step_deg = 0", "must be positive"),
        ("sim", "torque_step_nmm = inf", "non-finite"),
        ("sim", "torque_step_nmm = -5", "must be positive"),
        ("sim", "stroke_limit_mm = nan", "non-finite"),
        ("sim", "stroke_limit_mm = 0", "must be positive"),
        ("surfaces", "face_width_mm = nan", "non-finite"),
        ("surfaces", "face_width_mm = -20", "must be positive"),
        ("surfaces", "face_radius_mm = 0", "must be positive"),
        ("planner", "thin_object_mm = nan", "non-finite"),
        ("gears", "body_gear_radius_4s_mm = inf", "non-finite"),
        ("gears", "body_gear_radius_4s_mm = -12",
         "body_gear_radius_4s_mm must be positive, got '-12'"),
        ("detent", "magnet_gap_mm = 0", "magnet_gap_mm must be positive"),
        ("detent", "magnet_coefficient_nmm2 = -1",
         "magnet_coefficient_nmm2 must be positive"),
    ])
    def test_out_of_domain_value_line_number(self, section, line, message):
        key = line.split()[0]
        if section == "gears":
            text = MINIMAL.replace(f"{key} = 12", line)
        else:
            text = MINIMAL + f"[{section}]\n{line}\n"
        lineno = text.splitlines().index(line) + 1
        with pytest.raises(ConfigError, match=f"line {lineno}: .*{message}"):
            parse_config(text)


def _keyword_defaults(fn) -> dict:
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()}


class TestOneDefault:
    """Defaults stated in more than one layer agree with default_config()."""

    def test_layers_agree(self):
        cfg = default_config()
        settings = {"stroke_limit": cfg.stroke_limit, "step_deg": cfg.step_deg,
                    "torque_step": cfg.torque_step,
                    "friction_torque": cfg.friction_torque}
        scenario = {f.name: f.default for f in dataclasses.fields(sim.Scenario)}
        grasp_kw = _keyword_defaults(sim.grasp_scenario)
        switch_kw = _keyword_defaults(sim.switch_scenario)
        assert {k: scenario[k] for k in settings} == settings
        assert {k: grasp_kw[k] for k in settings} == settings
        # a switch ramps no torque, so it takes no torque step
        switch = {k: v for k, v in settings.items() if k != "torque_step"}
        assert {k: switch_kw[k] for k in switch} == switch
        assert modes.DEFAULT_FACE_RADIUS == cfg.face_radius
        assert grasp.DEFAULT_FACE_WIDTH == cfg.face_width
        assert (_keyword_defaults(grasp.classify_grasp)["thin_threshold"]
                == cfg.thin_object)
        assert (planner.PlannerThresholds().small_object_height
                == cfg.small_object_height)
        args = cli._build_parser().parse_args(
            ["simulate", "switch", "--from", "1", "--to", "2"])
        assert args.gap == switch_kw["gap"]
        mu = {f.name: f.default for f in dataclasses.fields(ObjectSpec)}["mu"]
        assert parse_object_file("shape = circle\nradius_mm = 5\n").spec.mu == mu

    def test_documented_defaults_parse_to_default_config(self, fixtures_dir):
        section, checked = None, set()
        for line in (fixtures_dir.parent / "docs" / "config.md").read_text().splitlines():
            if line.startswith("#"):
                m = re.fullmatch(r"## `\[(\w+)\]`.*", line)
                section, columns = (m[1] if m else None), None
            elif line.startswith("| ") and section is not None:
                cells = [c.strip() for c in line.strip("|").split("|")]
                if cells[0] == "key":
                    columns = cells
                    continue
                keys = re.findall(r"`([^`]*)`", cells[0])   # none in | --- |
                if not keys or "default" not in columns:
                    continue
                values = re.findall(r"`([^`]*)`", cells[columns.index("default")])
                if len(values) == 1 and len(keys) == 2:
                    # `a[, b]`: the first key takes a, the second a, b
                    head, tail = re.fullmatch(r"([^[]*)\[(.*)\]", values[0]).groups()
                    values = [head, head + tail]
                assert len(values) == len(keys), line
                text = MINIMAL + f"[{section}]\n" + "".join(
                    f"{k} = {v}\n" for k, v in zip(keys, values))
                assert parse_config(text) == default_config(), line
                checked.update(keys)
        assert checked == {k for s, keys in _SECTIONS.items() if s != "gears"
                           for k in keys}


class TestSetConfigValue:
    def test_detent_override(self):
        cfg = default_config()
        cfg2 = set_config_value(cfg, "detent.magnet_coefficient_nmm2", 2.14e-5)
        assert cfg2.magnet.magnet_coefficient == pytest.approx(2.14e-5)
        assert cfg2.gears == cfg.gears

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError, match="unknown sweep parameter"):
            set_config_value(default_config(), "gears.bogus", 1.0)

    def test_value_outside_config_file_domain(self):
        cfg = default_config()
        for value in (-50.0, -1e-300, 0.0):
            with pytest.raises(ConfigError, match="detent.magnet_gap_mm must be positive"):
                set_config_value(cfg, "detent.magnet_gap_mm", value)
        assert set_config_value(cfg, "detent.magnet_gap_mm",
                                1e-300).magnet.nominal_gap == 1e-300

    @pytest.mark.parametrize("param", sorted(SWEEPABLE_PARAMS))
    def test_domain_message_names_the_config_key(self, param):
        # the same words a config file gives for the key, with its section
        section, key = param.split(".")
        text = MINIMAL if section == "gears" else MINIMAL + f"[{section}]\n"
        text = re.sub(rf"^{key} = .*$", "", text, flags=re.M) + f"{key} = 0\n"
        with pytest.raises(ConfigError, match=f"{key} must be positive"):
            parse_config(text)
        for value in (0.0, -2.5):
            with pytest.raises(ConfigError) as err:
                set_config_value(default_config(), param, value)
            assert str(err.value) == f"{param} must be positive, got {value!r}"

    def test_friction_torque_is_not_sweepable(self):
        # no sweep metric depends on it; the config file still sets it
        for value in (-1.0, 0.0, 5.0):
            with pytest.raises(ConfigError, match="unknown sweep parameter"):
                set_config_value(default_config(), "sim.friction_torque_nmm", value)


@pytest.mark.parametrize("line", [
    "{key} 5",                   # no '='
    "{key} = 5\n{key} = 6",      # duplicate key
    "{key} = five",
    "{key} = nan",
])
def test_config_and_object_files_give_the_same_errors(line):
    """A bad line fails with the same message in either kind of file."""
    messages = []
    for parse, head, key, error in (
            (parse_config, MINIMAL + "[surfaces]\n", "face_width_mm", ConfigError),
            (parse_object_file, "shape = box\nheight_mm = 5\n", "width_mm",
             ObjectFileError)):
        with pytest.raises(error, match=r"^line \d+: ") as info:
            parse(head + line.format(key=key) + "\n")
        messages.append(str(info.value).split(": ", 1)[1].replace(key, "{key}"))
    assert messages[0] == messages[1]


class TestObjectFiles:
    def test_fixture_objects_parse(self, fixtures_dir):
        for path in sorted((fixtures_dir / "objects").glob("*.object")):
            desc = parse_object_file(path.read_text())
            assert desc.spec.mu >= 0

    def test_unknown_key_line_number(self):
        with pytest.raises(ObjectFileError, match="line 2"):
            parse_object_file("shape = circle\nwobble = 3\nradius_mm = 5\n")

    def test_missing_dimension(self):
        with pytest.raises(ObjectFileError, match="radius_mm"):
            parse_object_file("shape = circle\n")

    def test_non_numeric(self):
        with pytest.raises(ObjectFileError, match="non-numeric"):
            parse_object_file("shape = circle\nradius_mm = big\n")

    def test_flat_face_takes_no_radius(self):
        with pytest.raises(ValueError, match="flat face takes no radius"):
            FaceArc("flat", radius=5.0)

    def test_complex_composite_face_is_read_as_flat(self):
        desc = parse_object_file("shape = composite\nwidth_mm = 10\nheight_mm = 20\n"
                                 "left_face_shape = complex\n")
        assert desc.spec.shape.left == FaceArc("flat")

    @pytest.mark.parametrize("text, height", [
        ("shape = circle\nradius_mm = 6\n", 12.0),
        ("shape = thin_plate\nlength_mm = 30\nthickness_mm = 1\n", 30.0),
    ])
    def test_planner_height_without_height_key(self, text, height):
        desc = parse_object_file(text)
        assert desc.height is None
        assert desc.planner_height == height

    def test_bad_face_name(self):
        with pytest.raises(ObjectFileError, match="left_face"):
            parse_object_file("shape = circle\nradius_mm = 5\nleft_face = wavy\n")

    @pytest.mark.parametrize("text, lineno", [
        ("shape = circle\nradius_mm = 5\nmu = nan\n", 3),
        ("shape = circle\nradius_mm = 5\nmu = inf\n", 3),
        ("shape = circle\nradius_mm = inf\n", 2),
        ("shape = box\nwidth_mm = -inf\nheight_mm = 5\n", 2),
        ("shape = circle\nradius_mm = 5\nheight_mm = NaN\n", 3),
    ])
    def test_non_finite_value_line_number(self, text, lineno):
        with pytest.raises(ObjectFileError, match=f"line {lineno}: non-finite"):
            parse_object_file(text)

    @pytest.mark.parametrize("build", [
        lambda v: ObjectSpec(Circle(5.0), mu=v),
        lambda v: Circle(radius=v),
        lambda v: Box(width=v, height=5.0),
        lambda v: Box(width=5.0, height=v),
        lambda v: ThinPlate(length=v, thickness=1.0),
        lambda v: ThinPlate(length=30.0, thickness=v),
        lambda v: CompositeFaces(FaceArc("flat"), FaceArc("flat"), width=v, height=5.0),
        lambda v: CompositeFaces(FaceArc("flat"), FaceArc("flat"), width=5.0, height=v),
        lambda v: FaceArc("convex", radius=v),
    ])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_shape_values_rejected(self, build, value):
        with pytest.raises(ValueError, match="finite"):
            build(value)

    # a string shape was once built and failed only in flanks
    @pytest.mark.parametrize("shape", ["box", None, FaceArc("flat"), 5.0])
    def test_shape_that_is_not_an_object_shape_refused(self, shape):
        message = f"shape must be a Circle, Box, ThinPlate or CompositeFaces, got {shape!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ObjectSpec(shape)

    @pytest.mark.parametrize("text, lineno, message", [
        ("shape = circle\nradius_mm = -1\n", 2, "radius_mm must be positive"),
        ("shape = box\nwidth_mm = 20\nheight_mm = 0\n", 3,
         "height_mm must be positive"),
        ("shape = thin_plate\nthickness_mm = 1\nlength_mm = -30\n", 3,
         "length_mm must be positive"),
        ("shape = box\nwidth_mm = 20\nheight_mm = 25\nthickness_mm = -1\n", 4,
         "thickness_mm must be positive"),
        ("shape = circle\nmu = -0.2\nradius_mm = 5\n", 2,
         "friction coefficient must be finite and >= 0"),
        ("shape = composite\nleft_face_shape = wavy\nwidth_mm = 10\n"
         "height_mm = 10\n", 2, "unknown face kind"),
        ("shape = composite\nleft_face_shape = convex\nwidth_mm = 10\n"
         "height_mm = 10\n", 2, "convex face needs a positive radius"),
        ("shape = composite\nwidth_mm = 10\nheight_mm = 30\n"
         "left_face_shape = convex\nleft_face_radius_mm = 5\n", 3,
         "face arc cannot span the object height"),
        ("shape = composite\nwidth_mm = 10\nheight_mm = 10\n"
         "left_face_shape = flat\nleft_face_radius_mm = 5\n", 5, "flat face takes no radius"),
        ("shape = composite\nright_face_radius_mm = 5\nwidth_mm = 10\nheight_mm = 10\n"
         "right_face_shape = complex\n", 2, "flat face takes no radius"),
        ("shape = box\nwidth_mm = 20\nheight_mm = 25\nleft_face_radius_mm = 5\n", 4,
         "box shape takes no left_face_radius_mm"),
        ("shape = circle\nright_face_shape = convex\nradius_mm = 5\n"
         "left_face_radius_mm = 5\n", 2, "circle shape takes no right_face_shape"),
        ("shape = plate\nlength_mm = 30\nthickness_mm = 1\nleft_face_shape = flat\n", 4,
         "plate shape takes no left_face_shape"),
    ])
    def test_out_of_domain_value_line_number(self, text, lineno, message):
        with pytest.raises(ObjectFileError, match=f"line {lineno}: {message}"):
            parse_object_file(text)
