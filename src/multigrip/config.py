"""Run configuration: sectioned key=value files with strict validation.

Format: `[section]` headers with `key = value` lines; `#` starts a
comment.  Sections are [gears], [detent], [surfaces], [planner] and [sim].
Unknown sections or keys are rejected, and every error carries the line
number.  Values use a plain decimal point regardless of locale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .grasp import DEFAULT_FACE_WIDTH, DEFAULT_THIN_THRESHOLD
from .mechanics import (DEFAULT_COUNTS, DEFAULT_GEARS, DEFAULT_MAGNET,
                        GearGeometry, MagnetDetent, SurfaceCounts,
                        validate_antipodal_gearing)
from .modes import (DEFAULT_FACE_RADIUS, SurfaceKind, SurfaceShape,
                    default_order_3s, default_order_4s)
from .planner import PlannerThresholds
from .sim import Scenario

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config",
           "default_config", "set_config_value", "SWEEPABLE_PARAMS"]


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)
        self.line = line


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
    stroke_limit: float = Scenario.stroke_limit
    step_deg: float = Scenario.step_deg
    friction_torque: float = Scenario.friction_torque
    torque_step: float = Scenario.torque_step
    small_object_height: float = PlannerThresholds.small_object_height
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

_SURFACE_NAMES = {
    "flat": SurfaceKind.FLAT,
    "convex": SurfaceKind.CONVEX,
    "concave": SurfaceKind.CONCAVE,
    "deformable": SurfaceKind.DEFORMABLE_FLAT,
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


def _parse_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _SECTIONS:
                raise ConfigError(f"unknown section [{current}]", lineno)
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", lineno)
        if current is None:
            raise ConfigError("key outside of any [section]", lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in _SECTIONS[current]:
            raise ConfigError(f"unknown key {key!r} in [{current}]", lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        sections[current][key] = (value.strip(), lineno)
    return sections


def _number(section: dict[str, tuple[str, int]], key: str,
            default: float | None = None, domain: str | None = None) -> float:
    if key not in section:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    value, lineno = section[key]
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"non-numeric value for {key}: {value!r}",
                          lineno) from None
    if not math.isfinite(number):
        raise ConfigError(f"non-finite value for {key}: {value!r}", lineno)
    if not _in_domain(number, domain):
        raise ConfigError(f"{key} must be {domain}, got {value!r}", lineno)
    return number


def _in_domain(number: float, domain: str | None) -> bool:
    return not (domain == "positive" and number <= 0
                or domain == "non-negative" and number < 0)


def _integer(section: dict[str, tuple[str, int]], key: str, default: int) -> int:
    if key not in section:
        return default
    value, lineno = section[key]
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"non-integer value for {key}: {value!r}",
                          lineno) from None


def _surface_order(section, key: str, face_radius: float,
                   default: tuple[SurfaceShape, ...]) -> tuple[SurfaceShape, ...]:
    if key not in section:
        return default
    value, lineno = section[key]
    shapes = []
    for name in value.split(","):
        name = name.strip().lower()
        if name not in _SURFACE_NAMES:
            raise ConfigError(f"unknown surface {name!r} in {key}", lineno)
        kind = _SURFACE_NAMES[name]
        radius = face_radius if kind in (SurfaceKind.CONVEX, SurfaceKind.CONCAVE) else None
        shapes.append(SurfaceShape(kind, radius))
    return tuple(shapes)


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration file."""
    sections = _parse_sections(text)
    gears_sec = sections.get("gears", {})
    detent_sec = sections.get("detent", {})
    surf_sec = sections.get("surfaces", {})

    gear_kwargs = {attr: _number(gears_sec, key)
                   for key, attr in _GEAR_KEYS.items()}
    try:
        gears = GearGeometry(**gear_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    detent_kwargs = {attr: _number(detent_sec, key, DEFAULT_DETENT_VALUES[key])
                     for key, attr in _DETENT_KEYS.items()}
    try:
        magnet = MagnetDetent(**detent_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    try:
        counts = SurfaceCounts(n_3s=_integer(surf_sec, "count_3s", DEFAULT_COUNTS.n_3s),
                               n_4s=_integer(surf_sec, "count_4s", DEFAULT_COUNTS.n_4s))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    # class attributes of a dataclass hold its fields' defaults
    scalars = {field: _number(sections.get(sec, {}), key,
                              getattr(RunConfig, field), domain)
               for sec, keys in _SCALAR_KEYS.items()
               for key, (field, domain) in keys.items()}
    face_radius = scalars["face_radius"]
    order_3s = _surface_order(surf_sec, "order_3s", face_radius,
                              default_order_3s(face_radius) if counts.n_3s == 3 else ())
    order_4s = _surface_order(surf_sec, "order_4s", face_radius,
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
    try:
        nested = replace(getattr(config, group), **{attr: value})
    except ValueError as exc:
        raise ConfigError(f"{param}={value!r}: {exc}") from exc
    return replace(config, **{group: nested})
