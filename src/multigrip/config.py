"""Run configuration: sectioned key = value files with strict validation.

The format is `_keyvalue`'s, with `[section]` headers.  Sections are
[gears], [detent], [surfaces], [planner] and [sim].  Values use a plain
decimal point regardless of locale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ._keyvalue import KeyValues, LineError
from .mechanics import (DEFAULT_COUNTS, DEFAULT_GEARS, DEFAULT_MAGNET,
                        GearGeometry, MagnetDetent, SurfaceCounts,
                        validate_antipodal_gearing)
from .modes import (DEFAULT_FACE_RADIUS, DEFAULT_FACE_WIDTH,
                    DEFAULT_SMALL_OBJECT_HEIGHT, DEFAULT_THIN_THRESHOLD,
                    SurfaceKind, SurfaceShape, default_order_3s, default_order_4s)

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config",
           "default_config", "set_config_value", "SWEEPABLE_PARAMS"]


class ConfigError(LineError):
    """A configuration that fails validation."""


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters for the CLI and scenario builders."""

    gears: GearGeometry
    magnet: MagnetDetent
    counts: SurfaceCounts
    order_3s: tuple[SurfaceShape, ...]
    order_4s: tuple[SurfaceShape, ...]
    face_radius: float = DEFAULT_FACE_RADIUS
    face_width: float = DEFAULT_FACE_WIDTH
    # sim.Scenario takes its defaults for these four from here
    stroke_limit: float = 40.0
    step_deg: float = 0.1
    friction_torque: float = 0.0
    torque_step: float = 10.0
    small_object_height: float = DEFAULT_SMALL_OBJECT_HEIGHT
    thin_object: float = DEFAULT_THIN_THRESHOLD

    def __post_init__(self) -> None:
        violation = validate_antipodal_gearing(self.gears, self.counts)
        if violation is not None:
            raise ConfigError(str(violation))
        if len(self.order_3s) != self.counts.n_3s:
            raise ConfigError(
                f"surface order for the 3S finger has {len(self.order_3s)} "
                f"entries, expected {self.counts.n_3s}")
        if len(self.order_4s) != self.counts.n_4s:
            raise ConfigError(
                f"surface order for the 4S finger has {len(self.order_4s)} "
                f"entries, expected {self.counts.n_4s}")


_GEAR_KEYS = {
    "input_sprocket_radius_mm": "input_sprocket_radius",
    "drive_sprocket_radius_mm": "shaft_sprocket_radius",
    "shaft_gear_radius_3s_mm": "shaft_gear_radius_3s",
    "shaft_gear_radius_4s_mm": "shaft_gear_radius_4s",
    "body_gear_radius_3s_mm": "body_gear_radius_3s",
    "body_gear_radius_4s_mm": "body_gear_radius_4s",
}
_DETENT_KEYS = {
    "magnet_coefficient_nmm2": "magnet_coefficient",
    "magnet_circle_radius_mm": "circle_radius",
    "magnet_gap_mm": "nominal_gap",
}
# Scalar keys per section: the RunConfig field each sets (its default is the
# field's default) and the domain its value must lie in besides being finite.
_SCALAR_KEYS = {
    "surfaces": {"face_radius_mm": ("face_radius", "positive"),
                 "face_width_mm": ("face_width", "positive")},
    "planner": {"small_object_height_mm": ("small_object_height", None),
                "thin_object_mm": ("thin_object", None)},
    "sim": {"stroke_limit_mm": ("stroke_limit", "positive"),
            "step_deg": ("step_deg", "positive"),
            "friction_torque_nmm": ("friction_torque", "non-negative"),
            "torque_step_nmm": ("torque_step", "positive")},
}
_SECTIONS = {
    "gears": set(_GEAR_KEYS),
    "detent": set(_DETENT_KEYS),
    "surfaces": {"count_3s", "count_4s", "order_3s", "order_4s",
                 *_SCALAR_KEYS["surfaces"]},
    "planner": set(_SCALAR_KEYS["planner"]),
    "sim": set(_SCALAR_KEYS["sim"]),
}

DEFAULT_DETENT_VALUES = {key: getattr(DEFAULT_MAGNET, attr)
                         for key, attr in _DETENT_KEYS.items()}


def default_config() -> RunConfig:
    return RunConfig(
        gears=DEFAULT_GEARS,
        magnet=DEFAULT_MAGNET,
        counts=DEFAULT_COUNTS,
        order_3s=default_order_3s(RunConfig.face_radius),
        order_4s=default_order_4s(RunConfig.face_radius),
    )


def _integer(fields: KeyValues, key: str, default: int) -> int:
    value = fields.value(key)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"non-integer value for {key}: {value!r}",
                          fields.line(key)) from None


def _surface_order(fields: KeyValues, key: str, face_radius: float,
                   default: tuple[SurfaceShape, ...]) -> tuple[SurfaceShape, ...]:
    value = fields.value(key)
    if value is None:
        return default
    shapes = []
    for name in value.split(","):
        name = name.strip().lower()
        try:
            kind = SurfaceKind(name)
        except ValueError:
            raise ConfigError(f"unknown surface {name!r} in {key}",
                              fields.line(key)) from None
        radius = face_radius if kind in (SurfaceKind.CONVEX, SurfaceKind.CONCAVE) else None
        shapes.append(SurfaceShape(kind, radius))
    return tuple(shapes)


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration file."""
    fields = KeyValues(text, _SECTIONS, ConfigError)
    gears = GearGeometry(**{attr: fields.number(key, "positive", required=True)
                            for key, attr in _GEAR_KEYS.items()})
    magnet = MagnetDetent(**{attr: fields.number(key, "positive",
                                                 DEFAULT_DETENT_VALUES[key])
                             for key, attr in _DETENT_KEYS.items()})
    # the counts' own check spans two keys, so it names no line
    counts = fields.build(SurfaceCounts, None,
                          n_3s=_integer(fields, "count_3s", DEFAULT_COUNTS.n_3s),
                          n_4s=_integer(fields, "count_4s", DEFAULT_COUNTS.n_4s))

    # class attributes of a dataclass hold its fields' defaults
    scalars = {field: fields.number(key, domain, getattr(RunConfig, field))
               for keys in _SCALAR_KEYS.values()
               for key, (field, domain) in keys.items()}
    face_radius = scalars["face_radius"]
    order_3s = _surface_order(fields, "order_3s", face_radius,
                              default_order_3s(face_radius) if counts.n_3s == 3 else ())
    order_4s = _surface_order(fields, "order_4s", face_radius,
                              default_order_4s(face_radius) if counts.n_4s == 4 else ())
    if not order_3s or not order_4s:
        raise ConfigError("non-default surface counts need explicit "
                          "order_3s/order_4s lists")

    return RunConfig(gears=gears, magnet=magnet, counts=counts,
                     order_3s=order_3s, order_4s=order_4s, **scalars)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# Parameters the sweep subcommand may vary, as section.key names: each one
# feeds at least one sweep metric (friction torque feeds none).
SWEEPABLE_PARAMS = {
    **{f"detent.{key}": ("magnet", attr) for key, attr in _DETENT_KEYS.items()},
    **{f"gears.{key}": ("gears", _GEAR_KEYS[key])
       for key in ("input_sprocket_radius_mm", "drive_sprocket_radius_mm")},
}


def set_config_value(config: RunConfig, param: str, value: float) -> RunConfig:
    """Return a copy of the config with one sweepable parameter replaced."""
    if param not in SWEEPABLE_PARAMS:
        raise ConfigError(
            f"unknown sweep parameter {param!r}; supported: "
            + ", ".join(sorted(SWEEPABLE_PARAMS)))
    group, attr = SWEEPABLE_PARAMS[param]
    if not math.isfinite(value):
        raise ConfigError(f"non-finite value for {param}")
    # every sweepable key is read with domain "positive" from a config file
    if not value > 0:
        raise ConfigError(f"{param} must be positive, got {value!r}")
    nested = replace(getattr(config, group), **{attr: value})
    return replace(config, **{group: nested})
